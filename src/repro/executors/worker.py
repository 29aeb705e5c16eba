"""Worker-side half of the ``subprocess-workers`` executor.

Run as ``python -m repro.executors.worker`` by
:class:`~repro.executors.subproc.SubprocessExecutor`; never started by
hand.  The protocol is newline-delimited JSON — one object per line,
stdin for commands, stdout for replies — chosen because it is
stdlib-only, human-debuggable (``tee`` the streams), and identical to
what a localhost-TCP or SSH transport would carry:

Parent → worker
    ``{"op": "sweep", "sid": n, "spec": {...}}``
        Hold sweep ``n``'s :class:`~repro.experiments.parallel.
        SweepSpec` in place of the one held before: a worker keeps one
        spec.  The parent keeps ``n`` for as long as its batches carry
        the same spec, so this is sent once per distinct spec per
        worker, and again to a respawned worker.
    ``{"op": "task", "id": t, "sid": n, "index": i}``
        Compute point ``i`` of sweep ``n``; a task for a sweep other
        than the held one is answered with an ``error``.
    ``{"op": "ping", "id": t}``
        Liveness probe; answered immediately.
    ``{"op": "shutdown"}``
        Exit cleanly.

Worker → parent
    ``{"op": "ready", "pid": p}``
        Startup complete (preloads imported), ready for tasks.
    ``{"op": "heartbeat", "pid": p}``
        Emitted every ``--heartbeat-interval`` seconds from a
        background thread — *also while a task is computing*, which is
        what lets the parent tell "slow task" from "dead worker".
    ``{"op": "result", "id": t, "index": i, "payload": {...}}``
        The point's JSON payload (byte-identical to in-process
        execution: payloads are plain JSON, and JSON round-trips are
        exact).
    ``{"op": "error", "id": t, "index": i, "type": T, "message": M}``
        The point runner raised ``T`` — a *task* failure, which the
        parent surfaces typed instead of retrying (deterministic
        points fail deterministically).
    ``{"op": "pong", "id": t}``
        Ping reply.

``--preload MODULE`` (repeatable) imports modules before signalling
ready — how plugin point runners registered outside
:mod:`repro.experiments.parallel`'s built-in modules become resolvable
inside workers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from typing import Any, TextIO

__all__ = ["main"]


class _Emitter:
    """Serialised line writer: the heartbeat thread and the task loop
    share one stdout, so every line is written (and flushed) whole."""

    def __init__(self, stream: TextIO) -> None:
        self._stream = stream
        self._lock = threading.Lock()

    def send(self, message: dict[str, Any]) -> None:
        line = json.dumps(message, separators=(",", ":"))
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()


def _heartbeat_loop(
    emit: _Emitter, interval: float, stop: threading.Event
) -> None:
    pid = os.getpid()
    while not stop.wait(interval):
        try:
            emit.send({"op": "heartbeat", "pid": pid})
        except (OSError, ValueError):  # parent gone / stream closed
            return


def _run_task(
    emit: _Emitter,
    held: tuple[int, Any] | None,
    message: dict[str, Any],
) -> None:
    from repro.experiments.parallel import execute_point

    task_id = message.get("id")
    index = int(message["index"])
    try:
        sid = int(message["sid"])
        if held is None or held[0] != sid:
            raise KeyError(f"sweep {sid} is not the held sweep")
        payload = execute_point(held[1], index)
    except BaseException as exc:  # noqa: BLE001 - reported, not hidden
        emit.send(
            {
                "op": "error",
                "id": task_id,
                "index": index,
                "type": type(exc).__name__,
                "message": " ".join(str(exc).split()),
            }
        )
        return
    emit.send(
        {"op": "result", "id": task_id, "index": index, "payload": payload}
    )


def main(argv: list[str] | None = None) -> int:
    """The worker loop: read commands, emit replies, until shutdown/EOF."""
    parser = argparse.ArgumentParser(prog="repro-executor-worker")
    parser.add_argument("--heartbeat-interval", type=float, default=1.0)
    parser.add_argument(
        "--preload", action="append", default=[], metavar="MODULE"
    )
    args = parser.parse_args(argv)

    from importlib import import_module

    for module in args.preload:
        import_module(module)

    from repro.experiments.parallel import SweepSpec

    emit = _Emitter(sys.stdout)
    stop = threading.Event()
    heartbeat = threading.Thread(
        target=_heartbeat_loop,
        args=(emit, max(0.05, args.heartbeat_interval), stop),
        name="repro-worker-heartbeat",
        daemon=True,
    )
    heartbeat.start()
    emit.send({"op": "ready", "pid": os.getpid()})

    held: tuple[int, SweepSpec] | None = None
    try:
        for line in sys.stdin:
            if not line.strip():
                continue
            try:
                message = json.loads(line)
                op = message["op"]
            except (json.JSONDecodeError, KeyError, TypeError):
                continue  # torn/foreign line: the parent retries elsewhere
            if op == "shutdown":
                break
            if op == "sweep":
                held = (
                    int(message["sid"]),
                    SweepSpec.from_dict(message["spec"]),
                )
            elif op == "task":
                _run_task(emit, held, message)
            elif op == "ping":
                emit.send({"op": "pong", "id": message.get("id")})
    finally:
        stop.set()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
