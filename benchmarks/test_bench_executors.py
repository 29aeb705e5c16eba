"""Bench: the ``subprocess-workers`` executor's dispatch overhead.

The NDJSON transport pays a JSON round-trip per point instead of the
fork pool's pickle-by-reference, so its dispatch cost is worth pinning:
a multi-sweep fan-out through one *persistent* set of workers (the
``repro all``-shaped reuse pattern) is gated against the committed
baseline by ``tools/check_bench.py``.  Byte-identity with the serial
engine is asserted unconditionally — the fault-tolerant transport may
cost milliseconds, never correctness.
"""

from __future__ import annotations

import json
import os
import time

from repro.executors import SubprocessExecutor
from repro.experiments.parallel import SweepEngine, SweepSpec

#: Fixed at 2 (not CPU-capped): the measured effect is per-point
#: protocol overhead over long-lived workers, which exists regardless
#: of how many CPUs back them.
_WORKERS = 2
_PANELS = 8
_POINTS = 8


def _specs() -> list[SweepSpec]:
    """Calibration sweeps: per-point cost ≈ 0, so wall time *is* the
    executor's task-protocol overhead (what this benchmark pins)."""
    return [
        SweepSpec(
            kind="calibration",
            seed=3000 + panel,
            points=tuple({"index": i} for i in range(_POINTS)),
        )
        for panel in range(_PANELS)
    ]


def _payload_bytes(result) -> bytes:
    return json.dumps(result.payloads, sort_keys=True).encode()


def test_subprocess_executor_fanout(benchmark):
    """Pinned: multi-sweep fan-out over persistent NDJSON workers must
    stay fast (workers spawn once, tasks stream with no respawns)."""
    specs = _specs()
    serial = [SweepEngine(workers=1).run(spec) for spec in specs]

    with SubprocessExecutor(workers=_WORKERS) as executor:
        engine = SweepEngine(executor=executor)

        def fan_out():
            return [engine.run(spec) for spec in specs]

        # One warmup round pays the lazy worker spawn, so the pinned
        # mean measures steady-state dispatch, not interpreter startup.
        results = benchmark.pedantic(
            fan_out, rounds=3, iterations=1, warmup_rounds=1
        )

        start = time.perf_counter()
        again = fan_out()
        elapsed = time.perf_counter() - start
        print()
        print(
            f"fan-out over {_PANELS} sweeps × {_POINTS} points through "
            f"{_WORKERS} persistent subprocess workers: "
            f"{elapsed*1000:.0f}ms ({os.cpu_count()} CPU(s))"
        )

        # One spawn per worker served every round: reuse, no respawns.
        assert executor.spawn_count == _WORKERS

    # Determinism first: the transport never changes a byte.
    for a, b, c in zip(serial, results, again):
        assert _payload_bytes(a) == _payload_bytes(b) == _payload_bytes(c)


def test_subprocess_executor_cancellable_fanout(benchmark):
    """Unpinned tripwire: the job service's shape.  A cancellable
    engine hands the executor one batch of ``workers`` points at a
    time, so each sweep is several batches over the same spec, which
    the workers must be sent once, not once per batch."""
    specs = _specs()
    serial = [SweepEngine(workers=1).run(spec) for spec in specs]

    with SubprocessExecutor(workers=_WORKERS) as executor:
        engine = SweepEngine(executor=executor, should_cancel=lambda: False)

        def fan_out():
            return [engine.run(spec) for spec in specs]

        results = benchmark.pedantic(
            fan_out, rounds=3, iterations=1, warmup_rounds=1
        )
        assert executor.spawn_count == _WORKERS

    for a, b in zip(serial, results):
        assert _payload_bytes(a) == _payload_bytes(b)
