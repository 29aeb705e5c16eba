"""``subprocess-workers``: long-lived worker subprocesses with fault
tolerance.

The parent half of the protocol documented in
:mod:`repro.executors.worker`.  :class:`SubprocessExecutor` spawns N
worker subprocesses once (lazily, like
:class:`~repro.executors.builtin.PoolExecutor`) and keeps them across
sweeps; each worker runs one task at a time over newline-delimited
JSON on its stdin/stdout.  Unlike the fork pool this transport has no
shared memory and no pickling — tasks are addressed as ``(spec,
index)`` JSON — which is exactly the shape a multi-host backend (SSH,
TCP task queue) needs; the orchestration below is the skeleton such a
backend drops into.

Fault model
-----------

* **Worker death** (SIGKILL, OOM, crash) is detected two ways: the
  reader thread sees EOF immediately, and a busy worker that stops
  emitting heartbeats for ``heartbeat_timeout`` seconds is declared
  hung and killed.  Either way the worker is respawned and its
  in-flight task is retried — with exponential backoff, at most
  ``max_task_retries`` extra attempts — on another (or the respawned)
  worker.  Determinism makes the retry safe: a point's payload depends
  only on ``(spec, index)``, so fault-injected runs converge to the
  same bytes as serial ones (pinned by
  ``tests/executors/test_subprocess_executor.py`` and the golden
  fixtures).
* **Task timeout**: a single attempt running longer than
  ``task_timeout`` has its worker killed and the task retried under
  the same bounded-retry budget; exhausting the budget raises a typed
  :class:`~repro.errors.ExecutorError` (captured as a structured job
  failure by the :class:`~repro.jobs.JobRunner`).
* **Task errors**: a worker reporting that the point runner *raised*
  is not retried — deterministic points fail deterministically — and
  surfaces immediately as
  :class:`~repro.errors.ExecutorTaskError` carrying the original
  exception type.
* **Respawn storms** are bounded: if workers keep dying faster than
  tasks complete (broken interpreter, import error in a preload), the
  executor raises instead of spinning forever.

Results never pass through the store from a worker: payloads return to
the parent, which persists them exactly like the serial path — so
retries can never create duplicate store entries.
"""

from __future__ import annotations

import atexit
import json
import logging
import os
import subprocess
import sys
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from queue import Empty, SimpleQueue
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.errors import ExecutorError, ExecutorTaskError, ValidationError
from repro.executors.api import Executor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.parallel import SweepSpec

__all__ = ["SubprocessExecutor"]

log = logging.getLogger("repro.executors")

#: How long :meth:`SubprocessExecutor.close` waits for a clean exit
#: before killing a worker.
_SHUTDOWN_GRACE = 2.0

#: Event-loop tick while waiting for worker messages.
_POLL_INTERVAL = 0.05

#: Live executors, closed at interpreter exit so library users cannot
#: leak worker subprocesses.
_LIVE: "weakref.WeakSet[SubprocessExecutor]" = weakref.WeakSet()
_atexit_registered = False


def _close_live_executors() -> None:
    for executor in list(_LIVE):
        executor.close()


@dataclass
class _Task:
    """One point's execution state across attempts."""

    index: int
    attempts: int = 0
    not_before: float = 0.0


@dataclass
class _Worker:
    """Parent-side handle of one worker subprocess."""

    token: int
    proc: subprocess.Popen
    reader: threading.Thread
    ready: bool = False
    last_seen: float = field(default_factory=time.monotonic)
    busy: _Task | None = None
    busy_task_id: int | None = None
    busy_since: float = 0.0
    #: The sweep id whose spec this worker holds (it holds one).
    sweep: int | None = None


class SubprocessExecutor(Executor):
    """Fan sweep points over long-lived NDJSON worker subprocesses.

    Parameters
    ----------
    workers:
        Worker subprocess count (``None`` → visible CPU count; must be
        ≥ 1).  Workers spawn lazily on the first batch and persist
        across sweeps until :meth:`close`.
    task_timeout:
        Wall-clock budget of a *single attempt* of one point; ``None``
        (default) disables the per-task deadline (dead workers are
        still detected by EOF and missed heartbeats).
    heartbeat_interval:
        How often workers emit heartbeats (they also heartbeat while
        computing, from a background thread).
    heartbeat_timeout:
        Silence window after which a worker is declared hung and
        killed.  Must exceed ``heartbeat_interval``.
    max_task_retries:
        Extra attempts a point gets after worker-death/timeout
        failures before the executor raises (default 2 → at most 3
        attempts per point).
    retry_backoff:
        Base of the exponential retry delay: attempt ``k`` waits
        ``retry_backoff * 2**(k-1)`` seconds before rescheduling.
    preload:
        Module names each worker imports before signalling ready —
        how point runners registered outside the engine's built-in
        modules become resolvable inside workers.
    env:
        Extra environment variables for workers (merged over the
        parent's environment; the parent's ``repro`` package location
        is always prepended to ``PYTHONPATH``).
    """

    name = "subprocess-workers"

    def __init__(
        self,
        workers: int | None = None,
        *,
        task_timeout: float | None = None,
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: float = 30.0,
        max_task_retries: int = 2,
        retry_backoff: float = 0.05,
        preload: Sequence[str] = (),
        env: Mapping[str, str] | None = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValidationError(
                f"subprocess-workers needs >= 1 worker, got {workers}"
            )
        if heartbeat_timeout <= heartbeat_interval:
            raise ValidationError(
                "heartbeat_timeout must exceed heartbeat_interval "
                f"(got {heartbeat_timeout} <= {heartbeat_interval})"
            )
        if max_task_retries < 0:
            raise ValidationError(
                f"max_task_retries must be >= 0, got {max_task_retries}"
            )
        self.workers = max(1, int(workers or (os.cpu_count() or 1)))
        self.task_timeout = task_timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.max_task_retries = max_task_retries
        self.retry_backoff = retry_backoff
        self.preload = tuple(preload)
        self.extra_env = dict(env or {})
        #: Workers spawned over this executor's lifetime (initial
        #: spawns + respawns); observable like PoolExecutor.spawn_count.
        self.spawn_count = 0
        self._workers: dict[int, _Worker] = {}
        self._events: SimpleQueue[tuple[int, dict[str, Any]]] = SimpleQueue()
        self._next_token = 0
        self._next_task_id = 0
        #: The current sweep id and its spec's JSON: a batch whose spec
        #: encodes the same keeps the id, so workers that hold that
        #: spec are not sent it again.
        self._sweep_id = 0
        self._sweep_json: str | None = None
        self._lock = threading.Lock()  # one batch at a time
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    def _worker_env(self) -> dict[str, str]:
        import repro

        src_root = str(
            __import__("pathlib").Path(repro.__file__).resolve().parent.parent
        )
        env = dict(os.environ)
        env.update(self.extra_env)
        existing = env.get("PYTHONPATH", "")
        paths = [src_root] + ([existing] if existing else [])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        return env

    def _spawn_worker(self) -> _Worker:
        command = [
            sys.executable,
            "-m",
            "repro.executors.worker",
            "--heartbeat-interval",
            str(self.heartbeat_interval),
        ]
        for module in self.preload:
            command.extend(["--preload", module])
        proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
            env=self._worker_env(),
        )
        self._next_token += 1
        token = self._next_token
        reader = threading.Thread(
            target=self._read_worker,
            args=(token, proc),
            name=f"repro-executor-reader-{token}",
            daemon=True,
        )
        worker = _Worker(token=token, proc=proc, reader=reader)
        self._workers[token] = worker
        self.spawn_count += 1
        reader.start()
        log.info(
            "spawned subprocess worker pid %d (%d/%d live, spawn #%d)",
            proc.pid, len(self._workers), self.workers, self.spawn_count,
        )
        return worker

    def _read_worker(self, token: int, proc: subprocess.Popen) -> None:
        stream = proc.stdout
        assert stream is not None
        for line in stream:
            try:
                message = json.loads(line)
            except json.JSONDecodeError:
                continue  # stray print from a point runner: ignore
            if isinstance(message, dict):
                self._events.put((token, message))
        self._events.put((token, {"op": "exit"}))

    def _ensure_workers(self) -> None:
        if self._closed:
            self._closed = False  # closed executors lazily restart
        global _atexit_registered
        if not _atexit_registered:
            atexit.register(_close_live_executors)
            _atexit_registered = True
        _LIVE.add(self)
        while len(self._workers) < self.workers:
            self._spawn_worker()

    def close(self) -> None:
        """Shut the workers down (idempotent).  A later batch simply
        respawns them, as :meth:`PoolExecutor.close` does."""
        self._closed = True
        workers = list(self._workers.values())
        self._workers.clear()
        for worker in workers:
            try:
                assert worker.proc.stdin is not None
                worker.proc.stdin.write(
                    json.dumps({"op": "shutdown"}) + "\n"
                )
                worker.proc.stdin.flush()
                worker.proc.stdin.close()
            except (OSError, ValueError, AssertionError):
                pass
        deadline = time.monotonic() + _SHUTDOWN_GRACE
        for worker in workers:
            remaining = deadline - time.monotonic()
            try:
                worker.proc.wait(timeout=max(0.0, remaining))
            except subprocess.TimeoutExpired:
                worker.proc.kill()
                worker.proc.wait()

    # -- transport helpers -----------------------------------------------

    def _send(self, worker: _Worker, message: dict[str, Any]) -> bool:
        """Write one line to ``worker``; False when the pipe is gone."""
        try:
            assert worker.proc.stdin is not None
            worker.proc.stdin.write(
                json.dumps(message, separators=(",", ":")) + "\n"
            )
            worker.proc.stdin.flush()
            return True
        except (OSError, ValueError, AssertionError):
            return False

    def _kill_worker(self, worker: _Worker) -> None:
        self._workers.pop(worker.token, None)
        try:
            worker.proc.kill()
            worker.proc.wait(timeout=_SHUTDOWN_GRACE)
        except (OSError, subprocess.TimeoutExpired):
            pass

    def _fail_or_requeue(
        self,
        worker: _Worker,
        reason: str,
        pending: deque[_Task],
        kind: str,
    ) -> None:
        """Retire a dead/hung worker; retry its task within budget."""
        task = worker.busy
        self._kill_worker(worker)
        if task is None:
            log.warning(
                "idle subprocess worker pid %d died (%s); respawning",
                worker.proc.pid, reason,
            )
            return
        task.attempts += 1
        # attempts counts *failed* attempts; the budget is the first
        # attempt plus max_task_retries retries.
        if task.attempts > self.max_task_retries:
            raise ExecutorError(
                f"sweep {kind!r} point {task.index} failed after "
                f"{task.attempts} attempts (last failure: {reason}; "
                f"workers={self.workers}, "
                f"max_task_retries={self.max_task_retries})"
            )
        delay = self.retry_backoff * (2 ** (task.attempts - 1))
        task.not_before = time.monotonic() + delay
        pending.append(task)
        log.warning(
            "subprocess worker pid %d lost point %d (%s); retrying "
            "attempt %d/%d in %.2fs",
            worker.proc.pid, task.index, reason, task.attempts + 1,
            self.max_task_retries + 1, delay,
        )

    # -- execution -------------------------------------------------------

    def run_points(
        self, spec: "SweepSpec", indices: Sequence[int]
    ) -> list[tuple[int, dict[str, Any]]]:
        if not indices:
            return []
        with self._lock:
            return self._run_batch(spec, indices)

    def _run_batch(
        self, spec: "SweepSpec", indices: Sequence[int]
    ) -> list[tuple[int, dict[str, Any]]]:
        self._ensure_workers()
        spec_dict = spec.to_dict()
        # Compared as the JSON a worker is sent, not as dicts: 1 and
        # 1.0 (or 0.0 and -0.0) are equal values but distinct specs.
        spec_json = json.dumps(spec_dict, separators=(",", ":"))
        if spec_json != self._sweep_json:
            self._sweep_id += 1
            self._sweep_json = spec_json
        sid = self._sweep_id
        pending: deque[_Task] = deque(_Task(index=i) for i in indices)
        inflight: dict[int, _Task] = {}  # task id → task (this batch)
        results: dict[int, dict[str, Any]] = {}
        spawn_base = self.spawn_count
        respawn_budget = (
            self.workers * (self.max_task_retries + 2) + 4 + len(indices)
        )

        while len(results) < len(indices):
            if self.spawn_count - spawn_base > respawn_budget:
                raise ExecutorError(
                    f"subprocess workers keep dying "
                    f"({self.spawn_count - spawn_base} spawns for "
                    f"{len(indices)} points); giving up on sweep "
                    f"{spec.kind!r}"
                )
            self._assign(pending, inflight, sid, spec.kind, spec_dict)
            self._pump(pending, inflight, results, spec.kind)
            while len(self._workers) < self.workers:
                self._spawn_worker()
        return [(index, results[index]) for index in indices]

    def _assign(
        self,
        pending: deque[_Task],
        inflight: dict[int, _Task],
        sid: int,
        kind: str,
        spec_dict: dict[str, Any],
    ) -> None:
        if not pending:
            return
        now = time.monotonic()
        for worker in list(self._workers.values()):
            if not pending:
                return
            if not worker.ready or worker.busy is not None:
                continue
            # Respect retry backoff: leave not-yet-due tasks queued.
            due = None
            for _ in range(len(pending)):
                task = pending.popleft()
                if task.not_before <= now:
                    due = task
                    break
                pending.append(task)
            if due is None:
                return
            if worker.sweep != sid:
                if not self._send(
                    worker, {"op": "sweep", "sid": sid, "spec": spec_dict}
                ):
                    pending.appendleft(due)
                    self._fail_or_requeue(worker, "pipe closed", pending, kind)
                    continue
                worker.sweep = sid
            self._next_task_id += 1
            task_id = self._next_task_id
            if not self._send(
                worker,
                {"op": "task", "id": task_id, "sid": sid, "index": due.index},
            ):
                pending.appendleft(due)
                self._fail_or_requeue(worker, "pipe closed", pending, kind)
                continue
            worker.busy = due
            worker.busy_task_id = task_id
            worker.busy_since = time.monotonic()
            inflight[task_id] = due

    def _pump(
        self,
        pending: deque[_Task],
        inflight: dict[int, _Task],
        results: dict[int, dict[str, Any]],
        kind: str,
    ) -> None:
        """Drain worker messages (blocking briefly), then police
        deadlines and heartbeats."""
        block = True
        while True:
            try:
                token, message = self._events.get(
                    timeout=_POLL_INTERVAL if block else 0.0
                )
            except Empty:
                break
            block = False
            worker = self._workers.get(token)
            if worker is None:
                continue  # message from an already-retired worker
            op = message.get("op")
            worker.last_seen = time.monotonic()
            if op == "ready":
                worker.ready = True
            elif op in ("heartbeat", "pong"):
                pass
            elif op == "exit":
                self._fail_or_requeue(worker, "worker exited", pending, kind)
            elif op in ("result", "error"):
                task_id = message.get("id")
                if worker.busy_task_id == task_id:
                    worker.busy = None
                    worker.busy_task_id = None
                task = inflight.pop(task_id, None)
                if task is None:
                    continue  # stale reply from an abandoned batch
                if op == "error":
                    raise ExecutorTaskError(
                        f"sweep {kind!r} point {task.index} raised "
                        f"{message.get('type', 'Exception')}: "
                        f"{message.get('message', '')}",
                        error_type=str(message.get("type", "")),
                    )
                results[task.index] = message["payload"]

        now = time.monotonic()
        for worker in list(self._workers.values()):
            if worker.busy is not None and self.task_timeout is not None:
                if now - worker.busy_since > self.task_timeout:
                    self._fail_or_requeue(
                        worker,
                        f"task timeout after {self.task_timeout:g}s",
                        pending,
                        kind,
                    )
                    continue
            if now - worker.last_seen > self.heartbeat_timeout:
                self._fail_or_requeue(
                    worker,
                    f"no heartbeat for {self.heartbeat_timeout:g}s",
                    pending,
                    kind,
                )
