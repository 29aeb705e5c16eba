"""Fault injection against the ``subprocess-workers`` backend.

The point runner below is generated into a temp directory and imported
both in this process (so serial reference runs can execute it) and in
the worker subprocesses (via ``preload=`` + ``PYTHONPATH``).  Faults
are armed through sweep ``params``; every attempt is recorded in a
marker file, so "fail exactly once, then succeed" scenarios survive
worker respawns and the tests can assert how many attempts really
happened.  Payloads depend only on ``(index, rng)`` — never on the
fault knobs — so fault-injected runs must stay byte-identical to the
serial reference.
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest

from repro.errors import ExecutorError, ExecutorTaskError, ValidationError
from repro.executors import SubprocessExecutor
from repro.executors.worker import main as worker_main
from repro.experiments.parallel import SweepEngine, SweepSpec, execute_point
from repro.experiments.store import ResultStore

_RUNNER_SOURCE = '''\
"""Fault-injectable point runner for executor tests (generated)."""

import os
import signal
import time
from pathlib import Path

from repro.experiments.parallel import register_point_runner


def _attempt_number(markers, tag):
    """Record this attempt; return how many have happened (1-based)."""
    path = Path(markers) / tag
    with path.open("a") as handle:
        handle.write(f"{os.getpid()}\\n")
    with path.open() as handle:
        return sum(1 for _ in handle)


@register_point_runner("exec-test")
def run_exec_test_point(point, params, rng):
    index = int(point["index"])
    mode = params.get("mode")
    if mode and index == int(params.get("target", 1)):
        attempt = _attempt_number(params["markers"], f"{mode}-{index}")
        if mode == "kill" and attempt == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        elif mode == "sleep-once" and attempt == 1:
            time.sleep(120.0)
        elif mode == "sleep-always":
            time.sleep(120.0)
        elif mode == "raise":
            raise ValueError("injected fault")
    # The payload never depends on the fault knobs above: armed and
    # unarmed runs of one index are byte-identical by construction.
    return {"index": index, "value": float(rng.random())}
'''


@pytest.fixture(scope="session")
def runner_module(tmp_path_factory) -> str:
    """Write the runner module once per session and import it here, so
    the parent process can run the serial reference; workers import it
    via ``preload``."""
    directory = tmp_path_factory.mktemp("exec_runners")
    (directory / "exec_test_runner.py").write_text(_RUNNER_SOURCE)
    sys.path.insert(0, str(directory))
    import exec_test_runner  # noqa: F401  (registers "exec-test")

    return str(directory)


def _make_executor(runner_module: str, workers: int, **kwargs):
    kwargs.setdefault("retry_backoff", 0.01)
    return SubprocessExecutor(
        workers=workers,
        preload=("exec_test_runner",),
        env={"PYTHONPATH": runner_module},
        **kwargs,
    )


def _spec(
    markers: Path, mode: str | None = None, target: int = 1, n: int = 6
) -> SweepSpec:
    params: dict = {"markers": str(markers)}
    if mode:
        params.update(mode=mode, target=target)
    return SweepSpec(
        kind="exec-test",
        seed=4242,
        points=tuple({"index": i} for i in range(n)),
        params=params,
    )


def _serial_reference(markers: Path, n: int = 6) -> list[tuple[int, dict]]:
    spec = _spec(markers, mode=None, n=n)
    return [(i, execute_point(spec, i)) for i in range(n)]


def _attempts(markers: Path, tag: str) -> int:
    path = markers / tag
    return len(path.read_text().splitlines()) if path.exists() else 0


class TestHappyPath:
    def test_matches_serial_bytes(self, runner_module, tmp_path):
        spec = _spec(tmp_path)
        with _make_executor(runner_module, workers=2) as executor:
            got = executor.run_points(spec, list(range(6)))
        assert got == _serial_reference(tmp_path)

    def test_workers_persist_across_sweeps(self, runner_module, tmp_path):
        with _make_executor(runner_module, workers=2) as executor:
            executor.run_points(_spec(tmp_path), [0, 1, 2])
            first_pids = {w.proc.pid for w in executor._workers.values()}
            executor.run_points(_spec(tmp_path), [3, 4, 5])
            assert {w.proc.pid for w in executor._workers.values()} == first_pids
            assert executor.spawn_count == 2  # no respawns happened

    def test_close_is_idempotent_and_executor_restartable(
        self, runner_module, tmp_path
    ):
        executor = _make_executor(runner_module, workers=1)
        executor.run_points(_spec(tmp_path), [0])
        executor.close()
        executor.close()
        assert not executor._workers
        # A closed executor lazily respawns, like PoolExecutor.
        got = executor.run_points(_spec(tmp_path), [1])
        assert got == [_serial_reference(tmp_path)[1]]
        executor.close()


class TestWorkerDeath:
    def test_sigkilled_worker_is_respawned_and_results_match_serial(
        self, runner_module, tmp_path
    ):
        spec = _spec(tmp_path, mode="kill", target=1)
        with _make_executor(runner_module, workers=2) as executor:
            got = executor.run_points(spec, list(range(6)))
            assert executor.spawn_count > 2  # a respawn really happened
        assert _attempts(tmp_path, "kill-1") == 2  # died once, retried once
        assert got == _serial_reference(tmp_path)

    def test_fault_injected_sweep_writes_no_duplicate_store_entries(
        self, runner_module, tmp_path
    ):
        spec = _spec(tmp_path / "markers", mode="kill", target=2)
        (tmp_path / "markers").mkdir()
        store = ResultStore(tmp_path / "cache")
        with _make_executor(runner_module, workers=2) as executor:
            engine = SweepEngine(executor=executor, cache=store)
            result = engine.run(spec)
        assert result.stats.computed_points == 6
        assert store.stats()["entries"] == 6  # one entry per point, despite the retry

        # A warm rerun serves everything from the store: retries never
        # re-persisted a point, and nothing recomputes.
        computed: list[int] = []
        warm = SweepEngine(
            cache=ResultStore(tmp_path / "cache"),
            on_point_computed=computed.append,
        ).run(spec)
        assert computed == []
        assert warm.payloads == result.payloads


def _record_sweeps(executor: SubprocessExecutor) -> list[tuple[int, int]]:
    """Spy on ``executor``'s transport: the returned list fills with
    ``(worker token, sid)`` for every ``sweep`` message it sends."""
    sent: list[tuple[int, int]] = []
    send = executor._send

    def spy(worker, message):
        if message["op"] == "sweep":
            sent.append((worker.token, message["sid"]))
        return send(worker, message)

    executor._send = spy
    return sent


class TestSpecReuse:
    def test_cancellable_sweep_sends_each_worker_the_spec_once(
        self, runner_module, tmp_path
    ):
        # The job path: a cancellable engine hands the executor one
        # batch of `workers` points at a time, four batches here.
        spec = _spec(tmp_path, n=8)
        with _make_executor(runner_module, workers=2) as executor:
            sent = _record_sweeps(executor)
            result = SweepEngine(
                executor=executor, should_cancel=lambda: False
            ).run(spec)
            assert executor.spawn_count == 2
        tokens = [token for token, _ in sent]
        assert 1 <= len(tokens) <= 2
        assert len(set(tokens)) == len(tokens)  # one per worker
        assert len({sid for _, sid in sent}) == 1
        assert list(enumerate(result.payloads)) == _serial_reference(
            tmp_path, n=8
        )

    def test_a_changed_spec_is_sent_afresh(self, runner_module, tmp_path):
        first = _spec(tmp_path, n=4)
        second = SweepSpec(
            kind="exec-test",
            seed=first.seed + 1,
            points=first.points,
            params=first.params,
        )
        with _make_executor(runner_module, workers=1) as executor:
            sent = _record_sweeps(executor)
            a = executor.run_points(first, [0, 1])
            a += executor.run_points(first, [2, 3])
            b = executor.run_points(second, [0, 1, 2, 3])
            again = executor.run_points(first, [0, 1, 2, 3])
        assert [sid for _, sid in sent] == [1, 2, 3]
        assert a == again == _serial_reference(tmp_path, n=4)
        assert b == [(i, execute_point(second, i)) for i in range(4)]
        assert b != a  # so a worker computing on a stale spec would show

    def test_equal_values_that_encode_differently_are_distinct_specs(
        self, runner_module, tmp_path
    ):
        # 1 == 1.0, but a point runner can tell them apart, so the
        # worker must be sent the second spec.
        with _make_executor(runner_module, workers=1) as executor:
            sent = _record_sweeps(executor)
            for scale in (1, 1.0):
                spec = SweepSpec(
                    kind="exec-test",
                    seed=4242,
                    points=({"index": 0},),
                    params={"markers": str(tmp_path), "scale": scale},
                )
                executor.run_points(spec, [0])
        assert [sid for _, sid in sent] == [1, 2]

    def test_a_respawned_worker_is_sent_the_spec_again(
        self, runner_module, tmp_path
    ):
        spec = _spec(tmp_path, mode="kill", target=1, n=4)
        with _make_executor(runner_module, workers=1) as executor:
            sent = _record_sweeps(executor)
            got = SweepEngine(
                executor=executor, should_cancel=lambda: False
            ).run(spec)
            assert executor.spawn_count == 2
        # The first worker died on point 1; its replacement got the
        # spec before it took the retry.
        assert sent == [(1, 1), (2, 1)]
        assert list(enumerate(got.payloads)) == _serial_reference(
            tmp_path, n=4
        )

    def test_a_worker_holds_only_its_latest_spec(
        self, runner_module, tmp_path, monkeypatch
    ):
        # Driven in-process over in-memory streams: after a second
        # sweep, a task for the first one has no spec to run on.
        first = _spec(tmp_path, n=2)
        second = SweepSpec(
            kind="exec-test", seed=7, points=first.points,
            params=first.params,
        )
        lines = [
            {"op": "sweep", "sid": 1, "spec": first.to_dict()},
            {"op": "task", "id": 1, "sid": 1, "index": 0},
            {"op": "sweep", "sid": 2, "spec": second.to_dict()},
            {"op": "task", "id": 2, "sid": 2, "index": 0},
            {"op": "task", "id": 3, "sid": 1, "index": 1},
            {"op": "shutdown"},
        ]
        stdin = io.StringIO("".join(json.dumps(m) + "\n" for m in lines))
        stdout = io.StringIO()
        monkeypatch.setattr("sys.stdin", stdin)
        monkeypatch.setattr("sys.stdout", stdout)
        assert worker_main(["--heartbeat-interval", "60"]) == 0

        replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
        by_id = {r["id"]: r for r in replies if r["op"] in ("result", "error")}
        assert by_id[1]["payload"] == execute_point(first, 0)
        assert by_id[2]["payload"] == execute_point(second, 0)
        assert by_id[3]["op"] == "error"
        assert by_id[3]["type"] == "KeyError"


class TestTimeouts:
    def test_task_timeout_retries_once_then_succeeds(
        self, runner_module, tmp_path
    ):
        spec = _spec(tmp_path, mode="sleep-once", target=1, n=3)
        with _make_executor(
            runner_module, workers=1, task_timeout=0.5
        ) as executor:
            got = executor.run_points(spec, list(range(3)))
        assert _attempts(tmp_path, "sleep-once-1") == 2
        assert got == _serial_reference(tmp_path, n=3)

    def test_exhausted_retries_raise_a_typed_executor_error(
        self, runner_module, tmp_path
    ):
        spec = _spec(tmp_path, mode="sleep-always", target=1, n=2)
        with _make_executor(
            runner_module, workers=1, task_timeout=0.3, max_task_retries=1
        ) as executor:
            with pytest.raises(ExecutorError, match="after 2 attempts"):
                executor.run_points(spec, list(range(2)))
        assert _attempts(tmp_path, "sleep-always-1") == 2


class TestTaskErrors:
    def test_runner_exception_is_not_retried(self, runner_module, tmp_path):
        spec = _spec(tmp_path, mode="raise", target=1, n=3)
        with _make_executor(runner_module, workers=1) as executor:
            with pytest.raises(ExecutorTaskError, match="ValueError") as info:
                executor.run_points(spec, list(range(3)))
        assert info.value.error_type == "ValueError"
        # Deterministic points fail deterministically: exactly one
        # attempt, no respawn-and-retry loop.
        assert _attempts(tmp_path, "raise-1") == 1

    def test_task_error_is_an_executor_error_too(self):
        assert issubclass(ExecutorTaskError, ExecutorError)


class TestValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValidationError, match="worker"):
            SubprocessExecutor(workers=0)

    def test_rejects_heartbeat_timeout_below_interval(self):
        with pytest.raises(ValidationError, match="heartbeat"):
            SubprocessExecutor(
                workers=1, heartbeat_interval=2.0, heartbeat_timeout=1.0
            )

    def test_rejects_negative_retry_budget(self):
        with pytest.raises(ValidationError, match="max_task_retries"):
            SubprocessExecutor(workers=1, max_task_retries=-1)
